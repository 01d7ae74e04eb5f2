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
    deconvolve_1d,
    deconvolve_2d,
    gaussian_psf,
    synthetic_target,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    DsmgError,
    FactorizationFailure,
    IterationBudgetExceeded,
    MalformedFile,
    PreconditionViolated,
    UnattainableDiscrepancy,
)
from .linalg import SpectralFactorization, factorize_svd, from_diagonal
from .pgm import read_pgm, write_pgm
from .problems import NoiseSpec, TestProblem, add_noise, second_derivative_problem
from .solver import (
    AprioriRule,
    DiscrepancyRule,
    NoisyProblem,
    SolveReport,
    StoppingRule,
    discrepancy,
    evolution_filter,
    solution_at,
    solve,
)

__all__ = [
    "AprioriRule",
    "CirculantProblem",
    "DimensionMismatch",
    "DiscrepancyRule",
    "DomainError",
    "DsmgError",
    "FactorizationFailure",
    "GrayImage",
    "IterationBudgetExceeded",
    "MalformedFile",
    "NoiseSpec",
    "NoisyProblem",
    "PreconditionViolated",
    "SolveReport",
    "SpectralFactorization",
    "StoppingRule",
    "TestProblem",
    "UnattainableDiscrepancy",
    "VRReport",
    "add_noise",
    "blur_periodic",
    "deconvolve_1d",
    "deconvolve_2d",
    "discrepancy",
    "evolution_filter",
    "factorize_svd",
    "from_diagonal",
    "gaussian_psf",
    "read_pgm",
    "second_derivative_problem",
    "solution_at",
    "solve",
    "synthetic_target",
    "tikhonov_solution",
    "vr_solve",
    "write_pgm",
]
