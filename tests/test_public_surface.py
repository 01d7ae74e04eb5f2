"""The package's public names: exactly the agreed list, and no test oracles."""

import dsmg

PUBLIC = [
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

# reference implementations now in tests/oracles.py, and names folded away
REMOVED = [
    "DegenerateResidual",
    "NewtonResult",
    "UnstableStep",
    "adjoint_apply",
    "apply",
    "circular_convolve",
    "discrepancy_derivative",
    "greens_kernel",
    "landweber_integrate",
    "minimal_norm_solution",
    "newton_solve_t",
]


def test_public_surface():
    assert len(PUBLIC) == 36
    assert sorted(dsmg.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(dsmg, name) is not None
    for name in REMOVED:
        assert not hasattr(dsmg, name), name
