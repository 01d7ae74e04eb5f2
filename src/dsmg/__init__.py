"""Stable solvers for ill-conditioned linear systems Au = f with noisy data.

The core method runs the gradient flow du/dt = -A*(A u - f_delta) in closed
spectral form and stops it either where the residual meets the discrepancy
target C * delta (root found by Newton's method) or at an a priori time.
A Tikhonov baseline, a second-derivative test-problem family, and a periodic
FFT deconvolution front end round out the toolkit.
"""

__version__ = "0.1.0"

from .baselines import VRReport, tikhonov_solution, vr_solve
from .deconvolution import (
    CirculantProblem,
    GrayImage,
    blur_periodic,
    circular_convolve,
    deconvolve_1d,
    deconvolve_2d,
    gaussian_psf,
    synthetic_target,
)
from .errors import (
    DegenerateResidual,
    DimensionMismatch,
    DomainError,
    DsmgError,
    FactorizationFailure,
    IterationBudgetExceeded,
    MalformedFile,
    PreconditionViolated,
    UnattainableDiscrepancy,
    UnstableStep,
)
from .linalg import (
    SpectralFactorization,
    adjoint_apply,
    apply,
    factorize_svd,
    from_diagonal,
    minimal_norm_solution,
)
from .pgm import read_pgm, write_pgm
from .problems import NoiseSpec, TestProblem, add_noise, greens_kernel, second_derivative_problem
from .solver import (
    AprioriRule,
    DiscrepancyRule,
    NewtonResult,
    NoisyProblem,
    SolveReport,
    StoppingRule,
    discrepancy,
    discrepancy_derivative,
    evolution_filter,
    landweber_integrate,
    newton_solve_t,
    solution_at,
    solve,
)

__all__ = [
    "AprioriRule",
    "CirculantProblem",
    "DegenerateResidual",
    "DimensionMismatch",
    "DiscrepancyRule",
    "DomainError",
    "DsmgError",
    "FactorizationFailure",
    "GrayImage",
    "IterationBudgetExceeded",
    "MalformedFile",
    "NewtonResult",
    "NoiseSpec",
    "NoisyProblem",
    "PreconditionViolated",
    "SolveReport",
    "SpectralFactorization",
    "StoppingRule",
    "TestProblem",
    "UnattainableDiscrepancy",
    "UnstableStep",
    "VRReport",
    "add_noise",
    "adjoint_apply",
    "apply",
    "blur_periodic",
    "circular_convolve",
    "deconvolve_1d",
    "deconvolve_2d",
    "discrepancy",
    "discrepancy_derivative",
    "evolution_filter",
    "factorize_svd",
    "from_diagonal",
    "gaussian_psf",
    "greens_kernel",
    "landweber_integrate",
    "minimal_norm_solution",
    "newton_solve_t",
    "read_pgm",
    "second_derivative_problem",
    "solution_at",
    "solve",
    "synthetic_target",
    "tikhonov_solution",
    "vr_solve",
    "write_pgm",
]
