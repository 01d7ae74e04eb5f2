"""Second-derivative test family and the seeded noise model.

The test matrix discretizes the integral operator whose kernel is the
Green's function of u'' with zero boundary values on [0, 1]:

    K(s, t) = s (t - 1)  for s < t,        t (s - 1)  otherwise.

Discretization is Galerkin with orthonormal box functions on an N-cell grid,
integrated exactly: off the diagonal the kernel is bilinear over a cell pair,
so the exact cell average equals the midpoint value K(mid_i, mid_j) / N; the
diagonal cell is integrated in closed form across the kink at s = t. A plain
point-collocation rule cannot be used here: the kernel vanishes identically
on the s = 1 line, so sampling the endpoint grid makes the matrix singular.

Noise is generated by a Box-Muller transform over the PCG64 generator, so a
seed pins the realization bit-for-bit across platforms, and is rescaled so
that ||noise|| = delta_rel * ||b|| holds exactly.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .linalg import _frozen_array


@dataclass(frozen=True)
class TestProblem:
    """Matrix, exact solution and exact right-hand side b = A u."""

    matrix: np.ndarray
    exact_solution: np.ndarray
    exact_rhs: np.ndarray
    label: str


@dataclass(frozen=True)
class NoiseSpec:
    """Relative noise level and the seed that pins its realization."""

    delta_rel: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.delta_rel < 1.0:
            raise DomainError(f"delta_rel={self.delta_rel} must lie in (0, 1)")


def second_derivative_problem(N: int, u_fn: Callable[[float], float]) -> TestProblem:
    """Build the N x N second-derivative test problem for a given solution.

    The solution is sampled at the cell midpoints (i - 1/2) / N and the
    right-hand side is the exact product b = A u, so the pair (u, b) is
    consistent with the matrix by construction.
    """
    if N < 2:
        raise DomainError(f"N={N} must be at least 2")
    h = 1.0 / N
    mid = (np.arange(1, N + 1) - 0.5) * h
    matrix = (np.outer(mid, mid) - np.minimum.outer(mid, mid)) * h
    # Exact integral over the diagonal cell, where the kernel has a kink:
    # (1/h) * double integral of K over cell i equals
    # h^2 * ((i^2 - i + 1/4) h - (i - 2/3)).
    idx = np.arange(1, N + 1, dtype=float)
    matrix[np.diag_indices(N)] = h * h * ((idx * idx - idx + 0.25) * h - (idx - 2.0 / 3.0))
    exact_solution = np.array([float(u_fn(point)) for point in mid])
    exact_rhs = matrix @ exact_solution
    return TestProblem(
        matrix=_frozen_array(matrix),
        exact_solution=_frozen_array(exact_solution),
        exact_rhs=_frozen_array(exact_rhs),
        label=f"second-derivative N={N}",
    )


def standard_normal(spec: NoiseSpec, count: int) -> np.ndarray:
    """Deterministic standard normals: Box-Muller over PCG64(seed)."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    pairs = (count + 1) // 2
    u1 = rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log1p(-u1))
    angle = 2.0 * np.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:count]


def add_noise(b, spec: NoiseSpec) -> tuple[np.ndarray, float]:
    """Return (b + e, delta_abs) with ||e|| = delta_rel * ||b|| exactly."""
    b = np.asarray(b, dtype=float)
    scale = float(np.linalg.norm(b))
    if scale == 0.0:
        raise DomainError("cannot scale noise relative to a zero right-hand side")
    noise = standard_normal(spec, len(b))
    noise_norm = float(np.linalg.norm(noise))
    if noise_norm == 0.0:
        raise DomainError("degenerate zero noise draw")
    delta_abs = spec.delta_rel * scale
    noise *= delta_abs / noise_norm
    return b + noise, delta_abs
