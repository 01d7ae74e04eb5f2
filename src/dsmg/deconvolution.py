"""Periodic deconvolution through the DFT-diagonalized solver.

Circular convolution by a kernel h is diagonal in the discrete Fourier
basis, so deblurring reduces to a diagonal spectral problem with
S = diag(fft(h)) and right-hand side fft(g_delta); no factorization has to
be computed. The DFT convention is the unnormalized forward sum
sum_j x_j exp(-2 pi i j k / N), whose Parseval factor sqrt(N) converts the
noise bound between signal and Fourier domains.

Kernels and data are real, so each Fourier mode off the self-conjugate
columns has a conjugate twin carrying the same eigenvalue modulus and the
same data modulus. The system is therefore solved on the ``rfft2`` half
spectrum only, with the transformed data scaled by sqrt(2) on every column
whose twin ``rfft2`` drops (1 on column 0 and, for even widths, on the
Nyquist column). These weights make the half spectrum an isometry onto the
full one: the weighted data has norm sqrt(N) ||g_delta||, every residual
norm equals its full-spectrum value, and the noise target is unchanged.
The weighted coefficients are unweighted before ``irfft2``, which returns a
real array by construction, so no imaginary residue can appear. 1-d signals
are solved as 1 x N images through the same path.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linalg import _frozen_array, from_diagonal
from .solver import NoisyProblem, SolveReport, StoppingRule, solve


@dataclass(frozen=True)
class CirculantProblem:
    """Periodic kernel, observed signal of the same period, and noise bound."""

    kernel: np.ndarray
    observed: np.ndarray
    delta: float

    def __post_init__(self):
        kernel = _frozen_array(self.kernel, dtype=float)
        observed = _frozen_array(self.observed, dtype=float)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "observed", observed)
        if kernel.ndim != 1 or observed.ndim != 1:
            raise DimensionMismatch("kernel and observed signal must be 1-d")
        if len(kernel) != len(observed):
            raise DimensionMismatch(
                f"kernel length {len(kernel)} != signal length {len(observed)}"
            )
        if not np.all(np.isfinite(kernel)) or not np.all(np.isfinite(observed)):
            raise DomainError("kernel and observed signal must be finite")
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise DomainError(f"delta={self.delta} must be positive and finite")


@dataclass(frozen=True)
class GrayImage:
    """Grayscale image; pixels are floats indexed [row, column]."""

    pixels: np.ndarray

    def __post_init__(self):
        pixels = _frozen_array(self.pixels, dtype=float)
        object.__setattr__(self, "pixels", pixels)
        if pixels.ndim != 2 or pixels.size == 0:
            raise DimensionMismatch("pixels must be a nonempty 2-d array")
        if not np.all(np.isfinite(pixels)):
            raise DomainError("pixels must be finite")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def clamped(self) -> "GrayImage":
        """Copy with pixel values clipped to [0, 1]."""
        return GrayImage(np.clip(self.pixels, 0.0, 1.0))


def _half_spectrum_weights(width: int) -> np.ndarray:
    """Per-column weights that make the ``rfft2`` half spectrum an isometry.

    sqrt(2) on each column whose conjugate twin ``rfft2`` drops; 1 on
    column 0 and, for an even width, on the self-conjugate column width/2.
    """
    weights = np.full(width // 2 + 1, np.sqrt(2.0))
    weights[0] = 1.0
    if width % 2 == 0:
        weights[-1] = 1.0
    return weights


def _deconvolve(kernel, observed, delta: float, rule: StoppingRule) -> tuple[np.ndarray, SolveReport]:
    """Solve a real 2-d periodic deconvolution on the weighted half spectrum."""
    kernel_hat = np.fft.rfft2(kernel)
    if not np.any(kernel_hat != 0):
        raise DomainError("kernel transform is identically zero")
    weights = _half_spectrum_weights(observed.shape[1])
    # Parseval for the unnormalized DFT: norms gain a factor sqrt(N), so the
    # noise bound must be converted into the Fourier domain alongside the data.
    spectral = NoisyProblem(
        factorization=from_diagonal(kernel_hat.ravel()),
        f_delta=(np.fft.rfft2(observed) * weights).ravel(),
        delta=np.sqrt(observed.size) * delta,
    )
    report = solve(spectral, rule)
    restored = np.fft.irfft2(report.solution.reshape(kernel_hat.shape) / weights, s=observed.shape)
    return restored, report


def deconvolve_1d(problem: CirculantProblem, rule: StoppingRule) -> tuple[np.ndarray, SolveReport]:
    """Deblur a periodic signal; returns the restored signal and the solve report.

    The report's ``solution`` holds the weighted half-spectrum coefficients
    (``rfft`` order, sqrt(2) on the columns whose conjugate twins are
    dropped), not the restored signal.
    """
    restored, report = _deconvolve(
        problem.kernel[None, :], problem.observed[None, :], problem.delta, rule
    )
    return restored[0], report


def deconvolve_2d(
    observed: GrayImage,
    psf: GrayImage,
    delta_rel: float,
    rule: StoppingRule,
) -> tuple[GrayImage, SolveReport]:
    """Deblur an image under periodic boundary conditions.

    The point-spread function must have the same dimensions as the image and
    be periodized with its center at index (0, 0). The absolute noise bound
    is taken as delta_rel times the norm of the observed image. Output pixels
    are clamped to [0, 1]; the solve itself runs unclamped. The report's
    ``solution`` holds the weighted ``rfft2`` half-spectrum coefficients
    (flattened row-major, sqrt(2) on the columns whose conjugate twins are
    dropped), not pixels.
    """
    if observed.pixels.shape != psf.pixels.shape:
        raise DimensionMismatch(
            f"image {observed.pixels.shape} and psf {psf.pixels.shape} differ in shape"
        )
    if not (np.isfinite(delta_rel) and delta_rel > 0):
        raise DomainError(f"delta_rel={delta_rel} must be positive and finite")
    restored, report = _deconvolve(
        psf.pixels, observed.pixels, delta_rel * float(np.linalg.norm(observed.pixels)), rule
    )
    return GrayImage(restored).clamped(), report


def blur_periodic(image: GrayImage, psf: GrayImage) -> GrayImage:
    """Forward model: circular 2-d convolution of an image with a centered psf."""
    if image.pixels.shape != psf.pixels.shape:
        raise DimensionMismatch("image and psf differ in shape")
    blurred = np.fft.ifft2(np.fft.fft2(image.pixels) * np.fft.fft2(psf.pixels))
    return GrayImage(blurred.real)


def gaussian_psf(height: int, width: int, sigma: float) -> GrayImage:
    """Periodic Gaussian point-spread function centered at pixel (0, 0), sum 1."""
    if sigma <= 0:
        raise DomainError("sigma must be positive")
    rows = np.arange(height)
    cols = np.arange(width)
    dr = np.minimum(rows, height - rows).astype(float)
    dc = np.minimum(cols, width - cols).astype(float)
    kernel = np.exp(-np.add.outer(dr ** 2, dc ** 2) / (2.0 * sigma ** 2))
    return GrayImage(kernel / kernel.sum())


def synthetic_target(height: int = 64, width: int = 64) -> GrayImage:
    """Deterministic deblurring target: a disk, a bar, and point sources."""
    img = np.zeros((height, width))
    rows, cols = np.mgrid[0:height, 0:width]
    disk = (rows - height * 0.35) ** 2 + (cols - width * 0.35) ** 2 < (min(height, width) * 0.18) ** 2
    img[disk] = 0.7
    img[int(height * 0.55):int(height * 0.85), int(width * 0.5):int(width * 0.6)] = 1.0
    for r, c in ((0.2, 0.8), (0.8, 0.2), (0.75, 0.8)):
        img[int(height * r), int(width * c)] = 1.0
    return GrayImage(img)
