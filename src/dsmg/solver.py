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
convex, decreasing log psi from 0, ``_row_search``: one pass at 0 and one
per iteration. ``solve`` also offers the a priori time t = C / delta**gamma.
Both report through ``_outcomes``, with beta as the ``t_delta`` of Tikhonov.

A problem holds one right-hand side or a k x m stack of them, one per row,
that share the factorization: the noise draws of one experiment. The rows
are solved together, not one by one. Each basis acts on all rows as one
stack and each pass damps all rows at their own t. Each row runs its own
Newton search in float arithmetic, and ``_newton_on_log_psi`` drives the
searches of all rows by one pass per step; a row whose search fails is
recorded, and the others go on. A single right-hand side is the one-row
case of the same code: the core's per-row arrays are shaped as ``f_delta``
is only by public functions.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    DsmgError,
    IterationBudgetExceeded,
    UnattainableDiscrepancy,
)
from .linalg import (
    SpectralFactorization, _adjoint_multiply, _admitted, _left_multiply, _real, _require_positive,
)

NEWTON_TOL_REL = 1e-8
NEWTON_MAX_ITER = 100

FLAG_DISCREPANCY_AT_START = "discrepancy_already_satisfied_at_t0"


@dataclass(frozen=True)
class DiscrepancyRule:
    """Stop when the residual norm equals C * delta, with 1 < C < 2."""

    C: float = 1.1

    def __post_init__(self):
        if not 1.0 < _real(self.C, "discrepancy constant C") < 2.0:
            raise DomainError(f"discrepancy constant C={self.C} must lie in (1, 2)")


@dataclass(frozen=True)
class AprioriRule:
    """Stop at the data-independent time t = C / delta**gamma."""

    C: float = 1.0
    gamma: float = 0.5

    def __post_init__(self):
        _require_positive(self.C, "a priori constant C")
        if not 0.0 < _real(self.gamma, "a priori exponent gamma") < 1.0:
            raise DomainError(f"a priori exponent gamma={self.gamma} must lie in (0, 1)")


StoppingRule = DiscrepancyRule | AprioriRule


@dataclass(frozen=True, eq=False)
class NoisyProblem:
    """A factorized operator, noisy right-hand sides, their noise bounds and a start point.

    ``f_delta`` is one right-hand side of length m, or a k x m stack of
    them, one per row (k may be 0). ``delta`` bounds the data error
    ||f_delta - f|| of each in the same norm: a float for one right-hand
    side, an array of k for a stack. The rows share the factorization and
    the start point. ``u0`` defaults to the zero vector; both regularizers
    start from it. Every all-zero start is stored as a real zero vector, so
    it solves exactly as the default does. The cached arrays are shaped as
    ``f_delta`` is, one contiguous row per right-hand side, and a value per
    row is a float for one right-hand side.
    """

    factorization: SpectralFactorization
    f_delta: np.ndarray
    delta: float | np.ndarray
    u0: np.ndarray | None = None

    def __post_init__(self):
        m, n = self.factorization.shape
        rows = np.shape(self.f_delta)[:1] if np.ndim(self.f_delta) == 2 else ()
        object.__setattr__(self, "f_delta", _admitted(self.f_delta, "f_delta", rows + (m,)))
        delta = _real(self.delta, "delta")
        if delta.shape != rows:
            raise DimensionMismatch(f"delta has shape {delta.shape}, expected {rows}")
        _require_positive(delta, "delta")
        delta.setflags(write=False)
        object.__setattr__(self, "delta", delta if rows else float(delta))
        start = _admitted(np.zeros(n) if self.u0 is None else self.u0, "u0", (n,))
        object.__setattr__(self, "u0", start if start.any() else start.real)

    @property
    def _rows(self) -> int:
        return len(self.f_delta) if self.f_delta.ndim == 2 else 1

    def _stacked(self, values: np.ndarray) -> np.ndarray:
        """Values shaped as ``f_delta`` is, viewed as k rows."""
        return values.reshape(self._rows, values.shape[-1])

    def _per_row(self, values, name: str) -> np.ndarray:
        """A value for every row: an array of k, broadcast from a scalar.

        Raises DimensionMismatch on another shape and DomainError unless real.
        """
        values = _real(values, name)
        if values.shape not in ((), (self._rows,)):
            raise DimensionMismatch(f"{name} has shape {values.shape}, not () or ({self._rows},)")
        return values if values.ndim else np.full(self._rows, values)

    def _column(self, values, name: str) -> np.ndarray:
        """A value per row shaped to scale the rows: (k, 1), or (1,) for one right-hand side."""
        return self._per_row(values, name).reshape(self.f_delta.shape[:-1] + (1,))

    def _shaped(self, values: np.ndarray):
        """Values per row as the caller sees them: a float for one right-hand side."""
        return values if self.f_delta.ndim == 2 else float(values[0])

    @cached_property
    def rhs_coefficients(self) -> np.ndarray:
        """U* f_delta: the frozen f_delta itself for an identity U, else a fresh product."""
        basis = self.factorization.u_basis
        if basis is None:
            return self.f_delta
        out = _adjoint_multiply(basis, self.f_delta)
        out.setflags(write=False)
        return out

    @cached_property
    def _off_range_norm(self) -> np.ndarray:
        """||f_delta - U U* f_delta|| of each row: the data no singular triplet reaches.

        It is 0 unless the system is tall, and it never decays.
        """
        fact = self.factorization
        if fact.shape[0] == len(fact.diag):
            return np.zeros(self._rows)
        off = self.f_delta - _left_multiply(fact.u_basis, self.rhs_coefficients)
        return _scaled_norms(self._stacked(off))

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
    def _floors(self) -> np.ndarray:
        """inf psi of each row: r0 = U* f_delta on zero eigenvalues, and off range(U)."""
        stuck = self.factorization.eigenvalues == 0.0
        on_range = _scaled_norms(self._stacked(self.residual_weights)[:, stuck])
        return np.hypot(on_range, self._off_range_norm)

    @property
    def residual_floor(self):
        """inf psi of both methods: ``_floors``, a float for one right-hand side."""
        return self._shaped(self._floors)


class NewtonResult(NamedTuple):
    """The search of every row: its root, iterations, trace, psi at the root and failure."""

    t_delta: np.ndarray
    iterations: np.ndarray
    iterates: tuple
    residual_norm: np.ndarray
    failures: tuple


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one regularized solve: ``t_delta`` is the flow's t, or beta = 1 / alpha."""

    t_delta: float
    solution: np.ndarray
    residual_norm: float
    newton_iterations: int
    rule_used: StoppingRule
    diagnostics: tuple = field(default=())


def evolution_filter(lam, t):
    """Spectral gain (1 - exp(-t*lam)) / lam of the flow, with value t at lam = 0.

    Accepts scalars or arrays of eigenvalues and of times, broadcast against
    each other; shapes that do not broadcast raise DimensionMismatch.
    Evaluated through expm1 so tiny t*lam does not cancel; the result always
    lies in [0, t]. Complex or non-numeric input, a string of digits
    included, raises DomainError.
    """
    # not copied: a float64 spectrum is read as it is
    lam_arr = _real(lam, "eigenvalues", copy=False)
    t_arr = _real(t, "t", copy=False)
    # negated, so that NaN is rejected too
    if not np.all(lam_arr >= 0):
        raise DomainError("eigenvalues must be nonnegative")
    if not np.all(np.isfinite(t_arr) & (t_arr >= 0)):
        raise DomainError(f"t={t} must be nonnegative and finite")
    try:
        shape = np.broadcast_shapes(lam_arr.shape, t_arr.shape)
    except ValueError:
        raise DimensionMismatch(
            f"eigenvalues of shape {lam_arr.shape} and t of shape {t_arr.shape} do not broadcast"
        ) from None
    gains = np.full(shape, t_arr)
    # an overflowing t*lam rounds to inf silently, and the gain is then 1 / lam
    with np.errstate(over="ignore"):
        np.divide(-np.expm1(-t_arr * lam_arr), lam_arr, out=gains, where=lam_arr > 0)
    # subnormal t*lam can round the quotient above the exact bound t
    np.minimum(gains, t_arr, out=gains)
    if gains.ndim == 0:
        return float(gains)
    return gains


def _synthesis(problem: NoisyProblem, gains: np.ndarray) -> np.ndarray:
    """u = u0 + V (gains * r0) of every row, the state of either method.

    V acts on the stack of rows in one product. u0 outside span(V) never
    moves. ``gains`` must be fresh: the step overwrites it when r0's dtype
    casts to it.
    """
    r0 = problem.initial_residual_coefficients
    step = np.multiply(gains, r0, out=gains) if np.can_cast(r0.dtype, gains.dtype) else gains * r0
    out = _left_multiply(problem.factorization.v_basis, step)
    out += problem.u0
    return out


def solution_at(problem: NoisyProblem, t) -> np.ndarray:
    """Evaluate the flow state u(t) in closed form, at one t for every row or at one t per row.

    u(t) = u0 + V diag(filter(lam_i, t) conj(s_i)) U* (f_delta - A u0), with
    the filter of ``evolution_filter``; at t = 0 the filter vanishes and
    u(0) = u0. The states are shaped as ``f_delta`` is, one row per
    right-hand side.
    """
    fact = problem.factorization
    gains = evolution_filter(fact.eigenvalues, problem._column(t, "t"))
    return _synthesis(problem, gains * fact.diag.conj())


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of a with the same row of b.

    A stacked matmul of 1 x m by m x 1 blocks: bit-identical to np.dot of
    each row pair, unlike einsum or (a * b).sum(1).
    """
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _scaled_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, rescaled: accurate even when the squares underflow."""
    scale = np.max(np.abs(rows), axis=1, initial=0.0)
    scaled = rows / np.where(scale == 0.0, 1.0, scale)[:, None]
    parts = (scaled.real, scaled.imag) if np.iscomplexobj(scaled) else (scaled,)
    return scale * np.sqrt(sum(_row_dots(part, part) for part in parts))


def _norm_and_slope(problem: NoisyProblem, damping: np.ndarray, rate: np.ndarray):
    """psi and psi' of each row's residual, whose mode i keeps the fraction damping_ri of |r0_ri|.

    The one residual kernel: both damping laws are real, so only the
    ``residual_weights`` enter; mode i decays at ``rate_i`` (or ``rate_ri``),
    and the data off range(U) never decays. With d the damped weights of a
    row, psi = ||(d, off_range)|| and psi' = -sum(rate * d**2) / psi. d is
    rescaled by its maximum before squaring, so the squares underflow only
    where they are negligible. ``damping`` (k x len) is overwritten; each
    row is reduced on its own, along its contiguous axis. Returns psi and
    psi' as arrays of k; psi' is reported as 0 where psi itself is 0.
    """
    damping *= problem._stacked(problem.residual_weights)
    off_range = problem._off_range_norm
    scale = np.maximum(damping.max(axis=1, initial=0.0), off_range)
    live = scale > 0.0
    safe = np.where(live, scale, 1.0)
    damping /= safe[:, None]
    damping *= damping
    # as in float arithmetic, an overflow in a product rounds to inf silently
    with np.errstate(over="ignore"):
        norm = np.sqrt(damping.sum(axis=1) + (off_range / safe) ** 2)
        psi = scale * norm
        slope = np.divide(-scale * _row_dots(rate, damping), norm,
                          out=np.zeros_like(norm), where=live)
    return psi, slope


def _residual_pass(problem: NoisyProblem, t: np.ndarray):
    """psi(t) and psi'(t) of the flow, each row at its own t >= 0 of the array t.

    Mode i keeps exp(-t*lam_i) and decays at rate lam_i.
    """
    lam = problem.factorization.eigenvalues
    # an overflowing t*lam rounds to -inf silently: exp damps its mode to 0
    with np.errstate(over="ignore"):
        damping = lam * -t[:, None]
    np.exp(damping, out=damping)
    return _norm_and_slope(problem, damping, lam)


def discrepancy(problem: NoisyProblem, t):
    """Residual norm psi(t) = ||A u(t) - f_delta|| of each row, evaluated spectrally.

    Modes with zero eigenvalue and the data outside range(U) keep their
    initial residual forever, so psi decreases monotonically from
    ||A u0 - f_delta|| to the residual floor as t grows.
    """
    times = problem._per_row(t, "t")
    if np.count_nonzero(~(np.isfinite(times) & (times >= 0))):
        raise DomainError(f"t={t} must be nonnegative and finite")
    return problem._shaped(_residual_pass(problem, times)[0])


def _row_search(target: float, floor_of):
    """Solve psi(t) = target for t > 0 on one row by Newton's method on log psi from t = 0.

    A generator: it yields each t to evaluate and is sent psi(t) and psi'(t)
    as floats. ``floor_of()`` returns inf psi; it is read only if psi(0)
    exceeds the target. log psi must be convex and decreasing in t: then
    every Newton step from a point left of the root stays left of it, so the
    iterates rise monotonically. A step that rounding carries to or past the
    last t below the target is replaced by bisection between that t and the
    last point above the target. Returns the root, the iteration count, the
    rising trace of points above the target ending at the root, psi at the
    root, and the typed error or None. If psi(0) already meets the target,
    the result is t = 0 with no iterations; this is the one place that
    decides it.
    """
    t, iterations, points, failure = 0.0, 0, [], None
    psi, dpsi = yield t
    if psi <= target:
        return t, iterations, (t,), psi, failure
    floor = floor_of()
    if floor >= target:
        return t, iterations, (t,), psi, UnattainableDiscrepancy(
            f"residual floor {floor:.6e} >= C*delta = {target:.6e}; "
            "C is too small or delta understates the noise"
        )
    tol = NEWTON_TOL_REL * target
    log_target = math.log(target)
    upper = math.inf  # the last t below the target
    # negated so that a NaN psi is not converged, and is rejected below
    while not abs(psi - target) <= tol:
        if not math.isfinite(psi):
            failure = DomainError(f"residual norm {psi} at t={t:.6e} overflows double precision")
        elif iterations == NEWTON_MAX_ITER:
            failure = IterationBudgetExceeded(
                f"Newton did not reach |psi - C*delta| <= {tol:.3e} in {NEWTON_MAX_ITER} iterations"
            )
        elif psi > target and not dpsi < 0.0:
            failure = IterationBudgetExceeded(f"residual slope degenerated to {dpsi} at t={t:.6e}")
        if failure is not None:
            break
        iterations += 1
        if psi > target:
            lo, lo_psi, lo_dpsi = t, psi, dpsi
            points.append(t)
        else:
            upper = t
        # log(psi) - log(target), not log(psi / target): the ratio can
        # overflow; an overflowing step rounds to inf
        step = lo - (math.log(lo_psi) - log_target) * lo_psi / lo_dpsi
        if not lo < step < math.inf:
            failure = IterationBudgetExceeded(f"Newton step from t={lo:.6e} made no progress")
            break
        t = 0.5 * (lo + upper) if step >= upper else step
        psi, dpsi = yield t
    return t, iterations, (*points, t), psi, failure


def _newton_on_log_psi(problem: NoisyProblem, residual_pass, target) -> NewtonResult:
    """``_row_search`` on every row, its steps driven by lockstep passes.

    t is the flow time for the gradient flow and beta = 1 / alpha for
    Tikhonov. ``target`` and ``residual_pass(problem, t)``'s t, psi(t) and
    psi'(t) are arrays of one value per row, psi and psi' from one pass over
    the spectrum; inf psi is ``problem._floors``. Every row starts at t = 0
    and runs its own search in float arithmetic; the rows share one pass per
    step, so the search makes one pass more than its slowest row's
    iterations. A row leaves when it meets its target or fails: a failing
    row's typed error is recorded, and the other rows go on.
    """
    searches = {r: _row_search(goal, lambda r=r: float(problem._floors[r]))
                for r, goal in enumerate(target.tolist())}
    t = np.array([search.send(None) for search in searches.values()], dtype=float)
    results = [None] * len(t)
    while searches:
        psi, dpsi = (values.tolist() for values in residual_pass(problem, t))
        for r, search in list(searches.items()):
            try:
                t[r] = search.send((psi[r], dpsi[r]))
            except StopIteration as done:
                results[r] = done.value
                del searches[r]
    roots, iterations, iterates, norms, failures = zip(*results) if results else ((),) * 5
    return NewtonResult(np.array(roots, dtype=float), np.array(iterations, dtype=int),
                        iterates, np.array(norms, dtype=float), failures)


def _outcomes(problem: NoisyProblem, rule: StoppingRule, found: NewtonResult, solutions, at_start):
    """The SolveReport of every row from ``found``, or the DsmgError that row raised.

    A tuple, one outcome per row, for a stack; for one right-hand side, its
    report, or its error raised. ``at_start`` flags the rows whose start met the target.
    """
    outcomes = tuple(failure or SolveReport(
        t_delta=float(found.t_delta[r]),
        solution=solutions[r],
        residual_norm=float(found.residual_norm[r]),
        newton_iterations=int(found.iterations[r]),
        rule_used=rule,
        diagnostics=(FLAG_DISCREPANCY_AT_START,) if at_start[r] else (),
    ) for r, failure in enumerate(found.failures))
    if problem.f_delta.ndim == 2:
        return outcomes
    if isinstance(outcomes[0], DsmgError):
        raise outcomes[0]
    return outcomes[0]


def solve(problem: NoisyProblem, rule: StoppingRule):
    """Run the flow to the stopping time chosen by ``rule``, on every row.

    Discrepancy branch: the stopping time solves psi(t) = C * delta by
    Newton's method on log psi from t = 0. log psi(t) = 1/2 log sum_i
    exp(-2 t lam_i) |r_i|^2 is a log-sum-exp of affine functions of t, hence
    convex and decreasing, so the iterates rise monotonically to the root;
    on a single mode the first step is exact. If the start point already
    satisfies ||A u0 - f_delta|| <= C * delta, the report returns u0 at
    t = 0 with a diagnostic flag.
    A priori branch: t = C / delta**gamma with no search; psi(t) is
    evaluated once for the report, and a row whose time overflows raises
    DomainError.
    Returns a SolveReport for one right-hand side, and raises the row's
    DsmgError if it fails. For a stack, returns a tuple with one outcome
    per row, in order: its SolveReport or its DsmgError; one search and one
    synthesis serve all rows.
    """
    k = problem._rows
    deltas = problem._per_row(problem.delta, "delta")
    if isinstance(rule, AprioriRule):
        # in float arithmetic: numpy's SIMD power can differ from the C library's in the last bit
        t_stop = np.array([rule.C / delta ** rule.gamma for delta in deltas.tolist()])
        failures = tuple(None if math.isfinite(t) else DomainError(
            f"a priori time C / delta**gamma at delta={delta!r} overflows double precision"
        ) for t, delta in zip(t_stop.tolist(), deltas.tolist()))
        # an overflowing row is evaluated at t = 0 with the others, and dropped
        t_stop[~np.isfinite(t_stop)] = 0.0
        psi = problem._per_row(discrepancy(problem, t_stop), "psi")
        found = NewtonResult(t_stop, np.zeros(k, dtype=int), ((),) * k, psi, failures)
        at_start = np.zeros(k, dtype=bool)
    elif isinstance(rule, DiscrepancyRule):
        target = rule.C * deltas
        found = _newton_on_log_psi(problem, _residual_pass, target)
        at_start = (found.iterations == 0) & (found.residual_norm <= target)
    else:
        raise DomainError(f"unknown stopping rule {rule!r}")
    solutions = problem._stacked(solution_at(problem, found.t_delta))
    return _outcomes(problem, rule, found, solutions, at_start)
